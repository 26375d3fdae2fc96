//! Offline shim for `proptest`.
//!
//! Provides the slice of the proptest API this repository's property
//! tests use: the [`proptest!`] macro, `prop_assert*` / `prop_assume!`,
//! range and tuple strategies, [`collection::vec`], and `any::<T>()`.
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed
//! number of deterministically-seeded random cases (default 64, override
//! with the `PROPTEST_CASES` environment variable) and reports the first
//! failing case's values via the assertion message. Cases are seeded from
//! the test name, so failures reproduce exactly across runs.

use std::ops::{Range, RangeInclusive};

/// Number of cases per property (env `PROPTEST_CASES` overrides).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic per-test random source (xoshiro256++).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed from a test name so each property gets a stable stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut st = h;
        let mut next = || {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let w = self.next_u64();
            if w <= zone {
                return ((w as u128 * n as u128) >> 64) as u64;
            }
        }
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Something that can produce random values for a property case.
pub trait Strategy {
    /// The value type produced.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Spans ≤ 2⁶⁴ for all primitive ranges.
                let v = rng.below(span.min(u64::MAX as u128) as u64) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let v = self.start + (self.end - self.start) * rng.unit() as $t;
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

impl_float_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F),
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t { rng.next_u64() as $t }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, symmetric around zero, wide dynamic range.
        let mag = rng.unit() * 1e12;
        if rng.next_u64() & 1 == 1 {
            -mag
        } else {
            mag
        }
    }
}

/// Strategy wrapper for [`Arbitrary`] types.
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the canonical whole-domain strategy.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`].
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything the property tests import.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Run each property as `cases()` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($(#[$attr:meta])* fn $name:ident($($pat:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let mut __rng = $crate::TestRng::deterministic(stringify!($name));
                let __cases: u32 = ($cfg).cases;
                for __case in 0..__cases {
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                    // Render inputs up front: the body may consume them.
                    let __inputs = ::std::format!(
                        ::std::concat!($("\n  ", stringify!($pat), " = {:?}",)+),
                        $(&$pat),+
                    );
                    let __result: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(__msg) = __result {
                        panic!(
                            "property `{}` failed at case {}:\n{}\ninputs:{}",
                            stringify!($name),
                            __case,
                            __msg,
                            __inputs
                        );
                    }
                }
            }
        )*
    };
    ($($(#[$attr:meta])* fn $name:ident($($pat:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let mut __rng = $crate::TestRng::deterministic(stringify!($name));
                for __case in 0..$crate::cases() {
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                    // Render inputs up front: the body may consume them.
                    let __inputs = ::std::format!(
                        ::std::concat!($("\n  ", stringify!($pat), " = {:?}",)+),
                        $(&$pat),+
                    );
                    let __result: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(__msg) = __result {
                        panic!(
                            "property `{}` failed at case {}:\n{}\ninputs:{}",
                            stringify!($name),
                            __case,
                            __msg,
                            __inputs
                        );
                    }
                }
            }
        )*
    };
}

/// Assert inside a [`proptest!`] body; failure fails only that case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), __a, __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            ));
        }
    }};
}

/// Skip the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    proptest! {
        #[test]
        fn ranges_in_bounds(x in 10u64..20, y in -5i32..5, f in 0.5f64..1.5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u64..100, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
            prop_assert!(v.iter().all(|x| *x < 100));
        }

        #[test]
        fn tuples_sample_both(t in (0u64..10, 0u64..10)) {
            prop_assert!(t.0 < 10 && t.1 < 10);
        }

        #[test]
        fn assume_skips(n in 0u64..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics() {
        proptest! {
            fn always_fails(_x in 0u64..10) {
                prop_assert!(false, "intentional");
            }
        }
        always_fails();
    }
}
