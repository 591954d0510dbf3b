//! Offline shim for the `proptest` crate (see `shims/README.md`).
//!
//! Source-compatible with the subset of proptest this workspace uses:
//! the [`proptest!`] macro, `prop_assert*`, [`prop_oneof!`],
//! [`any`](arbitrary::any),
//! ranges / tuples / `prop::collection::vec` / `prop::sample` strategies,
//! and a regex-lite string strategy (`"[a-z]{0,8}"`-style patterns).
//!
//! Differences from real proptest: cases are generated from a fixed
//! per-test seed (deterministic across runs; override the count with
//! `PROPTEST_CASES`, and XOR a run-wide offset into every seed with
//! `PROPTEST_SEED=<u64>` to explore new cases), and failing cases are
//! **not shrunk** — the panic message reports the case number, the seed
//! and `PROPTEST_SEED` (which reproduces the failure) instead.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod strategy {
    //! The [`Strategy`] trait and the combinators the workspace uses.

    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy producing a value of type `T` via [`crate::arbitrary::Arbitrary`].
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary_sample(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    // Mild edge bias: endpoints show up more often than
                    // uniform sampling alone would produce.
                    match rng.gen_range(0u8..16) {
                        0 => self.start,
                        1 => self.end - 1,
                        _ => rng.gen_range(self.clone()),
                    }
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    match rng.gen_range(0u8..16) {
                        0 => *self.start(),
                        1 => *self.end(),
                        _ => rng.gen_range(self.clone()),
                    }
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $t:ident),+))*) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
    }

    /// Uniform choice between boxed alternative strategies — the engine
    /// behind [`crate::prop_oneof!`].
    pub struct Union<V> {
        arms: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `arms`; panics if empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn sample(&self, rng: &mut TestRng) -> V {
            let arm = rng.gen_range(0..self.arms.len());
            self.arms[arm].sample(rng)
        }
    }

    /// Boxes a strategy behind `dyn Strategy` — used by [`crate::prop_oneof!`]
    /// so each arm's value type unifies without coercion-under-inference.
    pub fn boxed<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(strategy)
    }

    impl Strategy for &str {
        type Value = String;

        /// Treats the `&str` as a regex-lite pattern (see [`crate::string`]).
        fn sample(&self, rng: &mut TestRng) -> String {
            crate::string::sample_pattern(self, rng)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` and the [`Arbitrary`] sources behind it.

    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value, biased toward edge cases.
        fn arbitrary_sample(rng: &mut TestRng) -> Self;
    }

    /// Returns the canonical strategy for `T` (biased uniform).
    pub fn any<T: Arbitrary>() -> crate::strategy::Any<T> {
        crate::strategy::Any(std::marker::PhantomData)
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ident),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_sample(rng: &mut TestRng) -> $t {
                    // 1 in 8 draws lands on an interesting edge value.
                    if rng.gen_range(0u8..8) == 0 {
                        [0, 1, $t::MAX, $t::MIN, $t::MAX - 1][rng.gen_range(0usize..5)]
                    } else {
                        rng.gen_range($t::MIN..=$t::MAX)
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_sample(rng: &mut TestRng) -> bool {
            rng.gen_range(0u8..2) == 1
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            crate::sample::Index { raw: rng.gen() }
        }
    }
}

pub mod collection {
    //! `prop::collection::vec`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Accepted size arguments for [`vec`](fn@vec): an exact length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element` and whose
    /// length comes from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! `prop::sample`: choosing from explicit value lists and indices.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy drawing uniformly from an explicit list of values.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select { values }
    }

    /// See [`select`].
    pub struct Select<T> {
        values: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.values[rng.gen_range(0..self.values.len())].clone()
        }
    }

    /// An index into a collection whose size is only known inside the test
    /// body; scale it with [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index {
        pub(crate) raw: u64,
    }

    impl Index {
        /// Maps this abstract index into `0..size`. Panics if `size == 0`.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index on empty collection");
            (self.raw % size as u64) as usize
        }
    }
}

pub mod string {
    //! Regex-lite string generation: enough of the regex strategy syntax to
    //! cover patterns like `".{0,20}"` and `"[a-zA-Z ]{0,12}"`.

    use crate::test_runner::TestRng;
    use rand::Rng;

    enum Class {
        /// `.` — any char (a printable-heavy mix including multibyte).
        Dot,
        /// `[...]` — explicit chars and ranges.
        Set(Vec<(char, char)>),
        /// A literal character.
        Literal(char),
    }

    struct Unit {
        class: Class,
        min: usize,
        max: usize, // inclusive
    }

    /// Samples a string matching `pattern`. Panics on syntax the shim does
    /// not implement (extend `parse` rather than silently mis-generating).
    pub fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let units = parse(pattern);
        let mut out = String::new();
        for unit in &units {
            let n = rng.gen_range(unit.min..=unit.max);
            for _ in 0..n {
                out.push(sample_class(&unit.class, rng));
            }
        }
        out
    }

    fn sample_class(class: &Class, rng: &mut TestRng) -> char {
        match class {
            Class::Literal(c) => *c,
            Class::Dot => {
                // Mostly ASCII, with deliberate multibyte coverage.
                match rng.gen_range(0u8..8) {
                    0 => *['é', 'ß', '中', '日', '🦀', '𝕏', '\u{7f}', 'Ω']
                        .get(rng.gen_range(0usize..8))
                        .unwrap(),
                    _ => char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap(),
                }
            }
            Class::Set(ranges) => {
                let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
                char::from_u32(rng.gen_range(lo as u32..=hi as u32))
                    .expect("char range must not span surrogates")
            }
        }
    }

    fn parse(pattern: &str) -> Vec<Unit> {
        let mut chars = pattern.chars().peekable();
        let mut units = Vec::new();
        while let Some(c) = chars.next() {
            let class = match c {
                '.' => Class::Dot,
                '[' => {
                    let mut ranges = Vec::new();
                    loop {
                        let c = chars
                            .next()
                            .unwrap_or_else(|| panic!("unterminated [ in pattern {pattern:?}"));
                        if c == ']' {
                            break;
                        }
                        if chars.peek() == Some(&'-') {
                            chars.next();
                            let hi = chars
                                .next()
                                .unwrap_or_else(|| panic!("dangling - in pattern {pattern:?}"));
                            assert!(hi != ']', "dangling - in pattern {pattern:?}");
                            ranges.push((c, hi));
                        } else {
                            ranges.push((c, c));
                        }
                    }
                    assert!(!ranges.is_empty(), "empty [] in pattern {pattern:?}");
                    Class::Set(ranges)
                }
                '\\' => Class::Literal(
                    chars
                        .next()
                        .unwrap_or_else(|| panic!("dangling \\ in {pattern:?}")),
                ),
                '{' | '}' | '*' | '+' | '?' | '(' | ')' | '|' | '^' | '$' => {
                    panic!("unsupported regex syntax {c:?} in pattern {pattern:?} (shim)")
                }
                c => Class::Literal(c),
            };
            // Optional {m,n} / {n} repetition.
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let spec: String = chars.by_ref().take_while(|&c| c != '}').collect();
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad {m,n}"),
                        n.trim().parse().expect("bad {m,n}"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("bad {n}");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(min <= max, "inverted repetition in pattern {pattern:?}");
            units.push(Unit { class, min, max });
        }
        units
    }
}

pub mod test_runner {
    //! The case loop and failure plumbing.

    /// The RNG handed to strategies (the `rand` shim's `StdRng`).
    pub type TestRng = rand::rngs::StdRng;

    /// A failed (or rejected) test case.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Marks the case as failed with `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            Self(reason.into())
        }

        /// Marks the case as rejected (the shim treats this as failure
        /// since it has no generation filters).
        pub fn reject(reason: impl Into<String>) -> Self {
            Self(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// `Result` alias matching real proptest.
    pub type TestCaseResult = Result<(), TestCaseError>;

    fn num_cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256)
    }

    /// The run-wide `PROPTEST_SEED` (a decimal `u64`); unset or unparsable
    /// is 0, which keeps every test on its fixed name seed.
    fn seed_offset() -> u64 {
        std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// A test's seed: FNV-1a over its name, XORed with the run-wide offset.
    pub(crate) fn test_seed(test_name: &str, offset: u64) -> u64 {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        seed ^ offset
    }

    /// Runs `body` over `PROPTEST_CASES` deterministic cases (default 256),
    /// drawn from the test's name seed and the optional `PROPTEST_SEED`.
    pub fn run<F>(test_name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> TestCaseResult,
    {
        use rand::SeedableRng;
        let offset = seed_offset();
        let seed = test_seed(test_name, offset);
        let cases = num_cases();
        for case in 0..cases {
            let mut rng = TestRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if let Err(e) = body(&mut rng) {
                panic!(
                    "proptest {test_name} failed at case {case}/{cases} \
                     (seed {seed:#x}, PROPTEST_SEED={offset}, no shrinking in shim): {e}"
                );
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Namespace re-export so `prop::collection::vec` etc. work after
/// `use proptest::prelude::*`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Defines property tests: each function body runs once per generated case.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__proptest_rng| {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), __proptest_rng);)+
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Like `assert!`, but fails the current proptest case instead of
/// panicking directly (so the runner can report the case number).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `assert_eq!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
}

/// `assert_ne!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
}

/// Uniform choice between alternative strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;
    use rand::SeedableRng;

    #[test]
    fn ranges_tuples_vecs_sample_in_bounds() {
        let mut rng = TestRng::seed_from_u64(0);
        for _ in 0..1_000 {
            let v = Strategy::sample(&(1usize..50), &mut rng);
            assert!((1..50).contains(&v));
            let (a, b) = Strategy::sample(&(any::<i32>(), 0i64..10), &mut rng);
            let _ = a;
            assert!((0..10).contains(&b));
            let xs = Strategy::sample(&prop::collection::vec(0u64..(1 << 40), 1..20), &mut rng);
            assert!((1..20).contains(&xs.len()));
            assert!(xs.iter().all(|&x| x < (1 << 40)));
            let fixed = Strategy::sample(&prop::collection::vec(1usize..1_000, 36), &mut rng);
            assert_eq!(fixed.len(), 36);
        }
    }

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..500 {
            let s = Strategy::sample(&"[a-z]{0,8}", &mut rng);
            assert!(s.chars().count() <= 8);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = Strategy::sample(&"[a-zA-Z ]{0,12}", &mut rng);
            assert!(t.chars().all(|c| c.is_ascii_alphabetic() || c == ' '));
            let u = Strategy::sample(&".{0,20}", &mut rng);
            assert!(u.chars().count() <= 20);
        }
    }

    #[test]
    fn oneof_and_select_cover_all_arms() {
        let mut rng = TestRng::seed_from_u64(2);
        let strat = prop_oneof![
            prop::collection::vec(0i64..1, 1..2),
            prop::collection::vec(prop::sample::select(vec![7i64]), 1..2),
        ];
        let mut saw = [false, false];
        for _ in 0..100 {
            match Strategy::sample(&strat, &mut rng)[0] {
                0 => saw[0] = true,
                7 => saw[1] = true,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(saw, [true, true]);
    }

    #[test]
    fn index_scales_into_any_size() {
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..100 {
            let ix: crate::sample::Index =
                Strategy::sample(&any::<crate::sample::Index>(), &mut rng);
            assert!(ix.index(17) < 17);
            assert_eq!(ix.index(1), 0);
        }
    }

    proptest! {
        /// The macro itself: patterns, multiple args, `?`, prop_assert.
        #[test]
        fn macro_smoke(xs in prop::collection::vec(any::<u8>(), 0..10), flag in any::<bool>()) {
            prop_assert!(xs.len() < 10);
            let mut rev = xs.clone();
            rev.reverse();
            rev.reverse();
            prop_assert_eq!(&rev, &xs);
            let _ = flag;
        }
    }

    #[test]
    #[should_panic(expected = "proptest failing_case failed at case")]
    fn failures_report_case_number() {
        crate::test_runner::run("failing_case", |_| Err(TestCaseError::fail("boom")));
    }

    #[test]
    fn seed_offset_moves_every_test_off_its_name_seed() {
        use crate::test_runner::test_seed;
        assert_ne!(test_seed("a", 0), test_seed("b", 0));
        assert_eq!(test_seed("a", 0) ^ test_seed("a", 41), 41);
    }
}
