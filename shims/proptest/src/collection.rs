//! Collection strategies (`proptest::collection`).

use rand::prelude::*;

use crate::strategy::Strategy;
use crate::test_runner::Rejection;

/// Element-count specification: a fixed size or a range of sizes.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi_exclusive: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self { lo: r.start, hi_exclusive: r.end }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        Self { lo: *r.start(), hi_exclusive: *r.end() + 1 }
    }
}

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Result<Vec<S::Value>, Rejection> {
        let n = rng.gen_range(self.size.lo..self.size.hi_exclusive);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
