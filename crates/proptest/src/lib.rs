//! Dev-only, in-tree property-test runner with the part of the `proptest`
//! 1.x surface this repository's ten `proptest!` blocks use, named so that
//! `use proptest::prelude::*` compiles unchanged: integer and float range
//! strategies, tuples, [`Just`], [`any`], [`Strategy::prop_map`],
//! [`prop_oneof!`], [`collection`], [`array::uniform3`],
//! [`ProptestConfig::with_cases`], `prop_assert!`, `prop_assert_eq!` and
//! `prop_assume!`.
//!
//! Case `i` of test `name` draws its inputs from the in-tree xoshiro256++
//! (`rand::rngs::SmallRng`) seeded from `(name, i)`, so a run is the same
//! everywhere and every time, and a failure names its case and prints the
//! inputs regenerated from that seed. Unlike the published crate there is
//! **no shrinking** (the reported input is the one drawn, not a minimal
//! one) and **no persistence file** (no `proptest-regressions/`): a failing
//! case is re-run by re-running the test.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A recipe for drawing one test input from the case's generator.
pub trait Strategy {
    type Value: Debug;

    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    fn prop_map<O: Debug>(self, f: impl Fn(Self::Value) -> O) -> impl Strategy<Value = O>
    where
        Self: Sized,
    {
        FromFn(move |rng: &mut SmallRng| f(self.generate(rng)))
    }
}

/// The strategy that draws its value by calling a function.
pub struct FromFn<F>(F);

impl<T: Debug, F: Fn(&mut SmallRng) -> T> Strategy for FromFn<F> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (self.0)(rng)
    }
}

/// Always the same value.
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// The whole domain of `T`, as the generator's `gen` draws it.
pub fn any<T: rand::Standard + Debug>() -> impl Strategy<Value = T> {
    FromFn(|rng: &mut SmallRng| rng.gen())
}

/// One of several strategies, chosen uniformly (what [`prop_oneof!`] builds).
pub fn one_of<T: Debug>(options: Vec<Box<dyn Strategy<Value = T>>>) -> impl Strategy<Value = T> {
    FromFn(move |rng: &mut SmallRng| options[rng.gen_range(0..options.len())].generate(rng))
}

// Integers go through a `u64` offset from the lower bound, so the narrow
// types the generator has no range for (`u8`) are drawn like the rest.
macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                (self.start..=self.end - 1).generate(rng)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u64;
                (*self.start() as i128 + rng.gen_range(0..=span) as i128) as $t
            }
        }
    )*};
}
int_range_strategies!(u8, u64, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies!((A.0)(A.0, B.1)(A.0, B.1, C.2));

pub mod collection {
    use super::*;

    /// A `Vec` whose length is drawn from `size`.
    pub fn vec<S: Strategy>(
        element: S,
        size: Range<usize>,
    ) -> impl Strategy<Value = Vec<S::Value>> {
        FromFn(move |rng: &mut SmallRng| {
            let n = size.generate(rng);
            (0..n).map(|_| element.generate(rng)).collect()
        })
    }

    /// A `BTreeSet` whose size is drawn from `size`; the element domain
    /// must be able to supply that many distinct values.
    pub fn btree_set<S: Strategy<Value: Ord>>(
        element: S,
        size: Range<usize>,
    ) -> impl Strategy<Value = BTreeSet<S::Value>> {
        FromFn(move |rng: &mut SmallRng| {
            let n = size.generate(rng);
            let mut set = BTreeSet::new();
            for _ in 0..64 * n {
                if set.len() == n {
                    break;
                }
                set.insert(element.generate(rng));
            }
            assert_eq!(set.len(), n, "element domain too small for the set size");
            set
        })
    }
}

pub mod array {
    use super::*;

    /// Three independent draws from one strategy.
    pub fn uniform3<S: Strategy>(element: S) -> impl Strategy<Value = [S::Value; 3]> {
        FromFn(move |rng: &mut SmallRng| [0; 3].map(|_| element.generate(rng)))
    }
}

pub struct ProptestConfig {
    /// Cases that must run to the end (rejected ones do not count).
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Why a case did not pass.
pub enum TestCaseError {
    /// `prop_assume!` was false: the input is outside the property's domain.
    Reject,
    /// `prop_assert!` / `prop_assert_eq!` failed.
    Fail(String),
}

/// The generator of case `case` of test `name`: FNV-1a over the name, offset
/// by the case index (SplitMix64 seeding decorrelates neighbouring seeds).
fn case_rng(name: &str, case: u64) -> SmallRng {
    let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    SmallRng::seed_from_u64(hash.wrapping_add(case))
}

/// Run `body` on generated inputs until `config.cases` cases have passed.
/// Panics on the first failing case, naming its index and inputs. This is
/// what a `proptest!` test function expands to.
pub fn run_cases<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let (mut passed, mut rejected) = (0, 0);
    for case in 0.. {
        if passed == config.cases {
            break;
        }
        let inputs = strategy.generate(&mut case_rng(name, case));
        // A body may also fail by panicking (a plain `assert!` or `expect`
        // inside it); its own message is printed by the panic hook.
        let run = std::panic::AssertUnwindSafe(|| body(inputs));
        let why = match std::panic::catch_unwind(run) {
            Ok(Ok(())) => {
                passed += 1;
                continue;
            }
            Ok(Err(TestCaseError::Reject)) => {
                rejected += 1;
                assert!(rejected <= 1024, "`{name}`: too many rejected cases");
                continue;
            }
            Ok(Err(TestCaseError::Fail(why))) => why,
            Err(_) => "the body panicked (message above)".to_string(),
        };
        let inputs = strategy.generate(&mut case_rng(name, case));
        panic!("proptest `{name}`: case {case} failed: {why}\ninputs: {inputs:?}");
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strategy,)+),
                |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::one_of(vec![$(Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !$cond {
            let note = String::new() $(+ &format!($($fmt)+))?;
            let failed = format!("assertion failed: `{}` {note}", stringify!($cond));
            return Err($crate::TestCaseError::Fail(failed));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {{
        let (left, right) = (&$left, &$right);
        let note = String::new() $(+ &format!($($fmt)+))?;
        $crate::prop_assert!(*left == *right, "left: {left:?}\n right: {right:?}\n{note}");
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

    static CALLS: AtomicU32 = AtomicU32::new(0);
    static RAN: AtomicU32 = AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        fn false_property(bytes in prop::collection::vec(0u8..10, 1..6), x in -5i64..=5) {
            prop_assert!(x < 3 || bytes.len() < 2, "x = {x}");
        }

        fn a_third_is_rejected(x in any::<u64>()) {
            CALLS.fetch_add(1, Relaxed);
            prop_assume!(x % 3 != 0);
            RAN.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn a_false_property_names_its_case_and_reproduces_its_inputs() {
        let failure = || -> String {
            let payload = std::panic::catch_unwind(false_property).expect_err("it is false");
            *payload.downcast().expect("a formatted panic message")
        };
        let first = failure();
        assert!(first.contains("tests::false_property`: case "), "{first}");
        assert!(
            first.contains("x = ") && first.contains("inputs: (["),
            "{first}"
        );
        assert_eq!(first, failure(), "same case, same inputs on a re-run");
    }

    #[test]
    fn with_cases_counts_only_cases_that_were_not_rejected() {
        a_third_is_rejected();
        assert_eq!(RAN.load(Relaxed), 40);
        assert!(CALLS.load(Relaxed) > 40, "the rejected draws were made too");
    }
}
