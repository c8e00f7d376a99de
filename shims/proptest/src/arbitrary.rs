//! `any::<T>()` — default strategies for primitive types.

use rand::prelude::*;
use rand::Standard;

use crate::strategy::Strategy;
use crate::test_runner::Rejection;

/// Types with a canonical default strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

/// The default strategy for `T` (`proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Result<T, Rejection> {
        Ok(T::arbitrary(rng))
    }
}

macro_rules! impl_arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_via_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32, bool);

impl Arbitrary for char {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // Printable ASCII keeps generated text debuggable.
        rng.gen_range(0x20u32..0x7f) as u8 as char
    }
}

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(rng: &mut StdRng) -> Self {
        (A::arbitrary(rng), B::arbitrary(rng))
    }
}

// `Standard` is implemented for all the primitive types above; this
// bound documents the delegation without re-listing them.
fn _assert_standard<T: Standard>() {}
