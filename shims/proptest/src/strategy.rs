//! The [`Strategy`] trait and its combinators.

use rand::prelude::*;

use crate::test_runner::Rejection;

/// How many times filtering combinators retry before rejecting the
/// whole test case.
const FILTER_RETRIES: usize = 64;

/// A recipe for generating values of `Self::Value`.
///
/// Matches the upstream trait shape closely enough for test code:
/// range literals, tuples, `&str` regex literals, and the combinator
/// methods all work. Generation is fallible so filters can reject.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value (or rejects the case, e.g. a filter that
    /// never passed).
    fn generate(&self, rng: &mut StdRng) -> Result<Self::Value, Rejection>;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }

    /// Keeps only values for which `f` returns `true`.
    fn prop_filter<R, F>(self, whence: R, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        R: Into<String>,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { base: self, whence: whence.into(), f }
    }

    /// Simultaneously filters and maps.
    fn prop_filter_map<O, R, F>(self, whence: R, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        R: Into<String>,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap { base: self, whence: whence.into(), f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Result<Self::Value, Rejection> {
        (**self).generate(rng)
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Result<T, Rejection> {
        (**self).generate(rng)
    }
}

/// A boxed, type-erased strategy (what [`crate::prop_oneof!`] stores).
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

/// Boxes a strategy, erasing its concrete type.
pub fn boxed<S>(s: S) -> BoxedStrategy<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> Result<T, Rejection> {
        Ok(self.0.clone())
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> Result<O, Rejection> {
        self.base.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> Result<S2::Value, Rejection> {
        let inner = (self.f)(self.base.generate(rng)?);
        inner.generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    whence: String,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Result<S::Value, Rejection> {
        for _ in 0..FILTER_RETRIES {
            let v = self.base.generate(rng)?;
            if (self.f)(&v) {
                return Ok(v);
            }
        }
        Err(Rejection::new(&self.whence))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    base: S,
    whence: String,
    f: F,
}

impl<S, O, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<O>,
{
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> Result<O, Rejection> {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = (self.f)(self.base.generate(rng)?) {
                return Ok(v);
            }
        }
        Err(Rejection::new(&self.whence))
    }
}

/// Uniform choice among boxed strategies ([`crate::prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Result<T, Rejection> {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Result<$t, Rejection> {
                Ok(rng.gen_range(self.clone()))
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Result<$t, Rejection> {
                Ok(rng.gen_range(self.clone()))
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32);

/// String literals are regex strategies (subset: literals, character
/// classes, and `* + ? {m} {m,n}` quantifiers — see the `pattern` module).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> Result<String, Rejection> {
        Ok(crate::pattern::sample(self, rng))
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> Result<String, Rejection> {
        Ok(crate::pattern::sample(self, rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "the tuple bindings reuse the type parameter names")]
            fn generate(&self, rng: &mut StdRng) -> Result<Self::Value, Rejection> {
                let ($($name,)+) = self;
                Ok(($($name.generate(rng)?,)+))
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
