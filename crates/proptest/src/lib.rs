//! Offline property-testing shim.
//!
//! The build environment has no crates.io access, so this in-repo crate
//! provides the subset of the real `proptest` API the workspace's tests
//! use: the `proptest!` / `prop_assert*!` / `prop_assume!` / `prop_oneof!`
//! macros, `Strategy` with `prop_map`, integer-range / tuple / collection
//! strategies, and `any::<T>()` for the primitive types that appear in
//! tests. Generation is purely random (seeded deterministically from the
//! test's module path and name) — there is no shrinking, so a failure
//! reports the case index instead of a minimal counterexample.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeFrom, RangeInclusive};

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Deterministic SplitMix64 generator driving all strategies.
pub struct TestRng(u64);

impl TestRng {
    pub fn from_name(name: &str) -> TestRng {
        // FNV-1a over the test's full path gives a stable per-test seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        wide % bound
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed — the property is violated.
    Fail(String),
    /// A `prop_assume!` rejected the inputs — try another case.
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-`proptest!` block configuration (only `cases` is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. Unlike real proptest there is no value tree or
/// shrinking; `generate` draws one concrete value.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { source: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.source.generate(rng))
    }
}

/// `prop_oneof!` support: draw uniformly among boxed alternatives.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u128) as usize;
        self.arms[i].generate(rng)
    }
}

/// Types `any::<T>()` can produce.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

macro_rules! int_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end as u128 - self.start as u128;
                (self.start as u128 + rng.below(span)) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = *self.end() as u128 - *self.start() as u128 + 1;
                (*self.start() as u128 + rng.below(span)) as $t
            }
        }

        impl Strategy for RangeFrom<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = <$t>::MAX as u128 - self.start as u128 + 1;
                (self.start as u128 + rng.below(span)) as $t
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategies {
    ($(($($name:ident $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for a generated collection.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub min: usize,
        pub max_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max_inclusive: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { min: *r.start(), max_inclusive: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max_inclusive: n }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max_inclusive - self.size.min + 1;
            let len = self.size.min + rng.below(span as u128) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform draw from a fixed set of values.
    pub struct Select<T: Clone>(Vec<T>);

    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select(values)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u128) as usize].clone()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    /// `None` a quarter of the time, `Some(inner draw)` otherwise —
    /// the real crate's default `Some` probability is 0.75 too.
    pub struct OfStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OfStrategy<S> {
        OfStrategy(inner)
    }

    impl<S: Strategy> Strategy for OfStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Drive one `proptest!`-declared test: loop until `cases` inputs have
/// been accepted (assume-rejections retry with fresh inputs, up to a
/// bound), panicking on the first failing case.
pub fn run_proptest<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut accepted = 0u32;
    let mut attempts = 0u64;
    let max_attempts = config.cases as u64 * 20 + 1000;
    while accepted < config.cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "{name}: too many prop_assume! rejections ({attempts} attempts for {} cases)",
            config.cases
        );
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: property failed on accepted case {accepted}: {msg}")
            }
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let full_name = concat!(module_path!(), "::", stringify!($name));
            $crate::run_proptest(full_name, &config, |rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                let result: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                result
            });
        }
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`: {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::from_name("ranges");
        for _ in 0..2000 {
            let v = Strategy::generate(&(3u8..7), &mut rng);
            assert!((3..7).contains(&v));
            let w = Strategy::generate(&(1u8..=255), &mut rng);
            assert!(w >= 1);
            let x = Strategy::generate(&(250u8..), &mut rng);
            assert!(x >= 250);
        }
    }

    #[test]
    fn same_name_same_sequence() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_smoke(a in 0u32..100, v in crate::collection::vec(any::<u8>(), 0..8)) {
            prop_assume!(a != 13);
            prop_assert!(a < 100);
            prop_assert!(v.len() < 8, "len {}", v.len());
            if a == 99 {
                return Ok(());
            }
            prop_assert_ne!(a, 13u32);
        }
    }

    proptest! {
        #[test]
        fn oneof_and_map(op in prop_oneof![
            (0u16..4).prop_map(|p| ("a", p)),
            (4u16..8).prop_map(|p| ("b", p)),
        ]) {
            match op {
                ("a", p) => prop_assert!(p < 4),
                ("b", p) => prop_assert!((4..8).contains(&p)),
                _ => prop_assert!(false, "unexpected arm"),
            }
        }
    }
}
