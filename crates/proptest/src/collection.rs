//! Collection strategies.

use std::ops::{Range, RangeInclusive};

use crate::{Strategy, TestRng};

/// A length specification for [`vec()`]; built from `usize`, `Range`, or
/// `RangeInclusive` like the real crate's `SizeRange`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { min: r.start, max: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { min: *r.start(), max: *r.end() }
    }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// A strategy for `Vec`s whose length is drawn from `size` and whose
/// elements are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.range_u64(self.size.min as u64, self.size.max as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Just;

    #[test]
    fn vec_length_in_bounds() {
        let mut rng = TestRng::new(13);
        let strat = vec(Just(7u8), 2..9);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..=8).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 7));
        }
    }
}
