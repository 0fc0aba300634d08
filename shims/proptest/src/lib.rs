//! Offline drop-in for the subset of `proptest` 1.x this workspace
//! uses: the [`proptest!`] test macro, `prop_assert*` macros, range /
//! `Just` / tuple / collection / regex-class strategies, `prop_map`,
//! `prop_flat_map`, weighted [`prop_oneof!`], and [`any`].
//!
//! Semantics: each test runs `ProptestConfig::cases` deterministic
//! random cases (seeded per test name, stable across runs). There is no
//! shrinking — a failing case reports its case index so it can be
//! reproduced, which is sufficient for the invariant-style properties in
//! this workspace.

use std::rc::Rc;

/// Deterministic generator driving strategy sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds case `case` of the test named `name`.
    pub fn for_case(name: &str, case: u64) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        MapStrategy { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMapStrategy { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(move |rng: &mut TestRng| self.sample(rng)),
        }
    }
}

/// A type-erased strategy (cheaply clonable).
pub struct BoxedStrategy<T> {
    inner: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMapStrategy<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Weighted choice between strategies of one value type
/// (the engine behind [`prop_oneof!`]).
pub struct Union<T> {
    branches: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Creates a union; weights must not all be zero.
    pub fn new(branches: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        assert!(
            branches.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs at least one positive weight"
        );
        Union { branches }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.branches.iter().map(|(w, _)| *w as u64).sum();
        let mut x = rng.below(total);
        for (w, s) in &self.branches {
            if x < *w as u64 {
                return s.sample(rng);
            }
            x -= *w as u64;
        }
        unreachable!("weights sum mismatch")
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident/$v:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($v,)+) = self;
                ($($v.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S1/a)
    (S1/a, S2/b)
    (S1/a, S2/b, S3/c)
    (S1/a, S2/b, S3/c, S4/d)
    (S1/a, S2/b, S3/c, S4/d, S5/e)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f, S7/g)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f, S7/g, S8/h)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f, S7/g, S8/h, S9/i)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f, S7/g, S8/h, S9/i, S10/j)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f, S7/g, S8/h, S9/i, S10/j, S11/k)
    (S1/a, S2/b, S3/c, S4/d, S5/e, S6/f, S7/g, S8/h, S9/i, S10/j, S11/k, S12/l)
}

/// A `&str` used as a strategy is interpreted as a character-class
/// pattern of the form `[class]{min,max}` (the only regex form this
/// workspace uses); anything else generates the literal string.
impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        regex_class::generate(self, rng)
    }
}

mod regex_class {
    //! Tiny `[class]{m,n}` pattern generator.

    use super::TestRng;

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        if chars.first() != Some(&'[') {
            return pattern.to_string();
        }
        let Some(close) = chars.iter().position(|&c| c == ']') else {
            return pattern.to_string();
        };
        let alphabet = expand_class(&chars[1..close]);
        if alphabet.is_empty() {
            return String::new();
        }
        let (min, max) = parse_counts(&chars[close + 1..]);
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }

    fn expand_class(body: &[char]) -> Vec<char> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < body.len() {
            let c = if body[i] == '\\' && i + 1 < body.len() {
                i += 1;
                body[i]
            } else if i + 2 < body.len() && body[i + 1] == '-' {
                // A range like `a-z`.
                let (lo, hi) = (body[i], body[i + 2]);
                i += 3;
                for code in lo as u32..=hi as u32 {
                    if let Some(ch) = char::from_u32(code) {
                        out.push(ch);
                    }
                }
                continue;
            } else {
                body[i]
            };
            out.push(c);
            i += 1;
        }
        out
    }

    fn parse_counts(rest: &[char]) -> (usize, usize) {
        // `{m,n}` / `{n}`; default is exactly one repetition.
        if rest.first() != Some(&'{') {
            return (1, 1);
        }
        let body: String = rest[1..].iter().take_while(|&&c| c != '}').collect();
        match body.split_once(',') {
            Some((m, n)) => {
                let m = m.trim().parse().unwrap_or(0);
                let n = n.trim().parse().unwrap_or(m);
                (m, n.max(m))
            }
            None => {
                let n = body.trim().parse().unwrap_or(1);
                (n, n)
            }
        }
    }
}

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64() * 2.0 - 1.0
    }
}

/// The canonical strategy for `T` (`any::<bool>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::{Strategy, TestRng};

    /// Accepted by [`vec()`] as either an exact length or a length range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    /// A strategy for `Vec<T>` with lengths drawn from `size`.
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

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Per-test configuration (`cases` is the number of random cases run).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Item-munching guts of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                // The body runs in a `ControlFlow` closure so that
                // `prop_assume!` can quietly reject a case via `return`.
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        || -> ::std::ops::ControlFlow<()> {
                            $body
                            #[allow(unreachable_code)]
                            ::std::ops::ControlFlow::Continue(())
                        },
                    ),
                );
                if let Err(cause) = outcome {
                    eprintln!(
                        "proptest case {case}/{} of `{}` failed; rerun is deterministic",
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(cause);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Skips the current case when `cond` is false (no replacement case is
/// drawn in the shim; the case simply doesn't run).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::ops::ControlFlow::Break(());
        }
    };
}

/// Asserts a condition inside a property (plain assert in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted (`w => strategy`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude::*`.

    /// `prop::collection::vec(..)` paths resolve through this alias.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn sampling_is_deterministic_per_case() {
        let s = (0usize..100, 0.0..1.0f64);
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(s.sample(&mut a), s.sample(&mut c));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..500 {
            let u = (3usize..17).sample(&mut rng);
            assert!((3..17).contains(&u));
            let f = (-2.0..5.0f64).sample(&mut rng);
            assert!((-2.0..5.0).contains(&f));
            let i = (-5i32..5).sample(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn oneof_honours_weights_and_types() {
        let s = prop_oneof![9 => (0.0..1.0f64).prop_map(Some), 1 => Just(None)];
        let mut rng = crate::TestRng::for_case("weights", 1);
        let nones = (0..1000).filter(|_| s.sample(&mut rng).is_none()).count();
        assert!((40..250).contains(&nones), "nones {nones}");
    }

    #[test]
    fn vec_and_flat_map_compose() {
        let s = (1usize..5, 1usize..4).prop_flat_map(|(r, c)| {
            prop::collection::vec(0.0..1.0f64, r * c).prop_map(move |data| (r, c, data))
        });
        let mut rng = crate::TestRng::for_case("compose", 2);
        for _ in 0..100 {
            let (r, c, data) = s.sample(&mut rng);
            assert_eq!(data.len(), r * c);
        }
    }

    #[test]
    fn regex_class_strategy_generates_members() {
        let s = "[a-cXY_\\\"]{2,6}";
        let mut rng = crate::TestRng::for_case("regex", 0);
        for _ in 0..200 {
            let text = s.sample(&mut rng);
            assert!((2..=6).contains(&text.chars().count()), "{text:?}");
            for ch in text.chars() {
                assert!(
                    matches!(ch, 'a'..='c' | 'X' | 'Y' | '_' | '"'),
                    "unexpected {ch:?}"
                );
            }
        }
        // Zero-length lower bound is honoured.
        let empty_ok = "[a]{0,2}";
        let mut saw_empty = false;
        for _ in 0..100 {
            saw_empty |= empty_ok.sample(&mut rng).is_empty();
        }
        assert!(saw_empty);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_form_runs_with_multiple_args(
            x in 0usize..10,
            flag in any::<bool>(),
            v in prop::collection::vec(0.0..1.0f64, 1..5),
        ) {
            prop_assert!(x < 10);
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(v.len(), 0);
        }
    }
}
