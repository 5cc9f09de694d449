//! Totally-ordered similarity scores.
//!
//! Section 3 defines the similarity between documents `D1` and `D2` as
//! `Σ uᵢ·vᵢ` over their common terms, and notes that a more realistic
//! function divides by the document norms and applies inverse-document-
//! frequency weights. Raw count products are integers (exactly representable
//! in an `f64` far beyond realistic magnitudes), while the weighted schemes
//! are genuinely fractional, so one `f64`-backed score type serves both.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A similarity value with a total order (`NaN` is rejected at construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct Score(f64);

impl Score {
    /// The zero score.
    pub const ZERO: Score = Score(0.0);

    /// Wraps a raw value.
    ///
    /// # Panics
    /// Panics on `NaN`: a similarity is always a sum of products of
    /// non-negative weights, so `NaN` indicates a logic error upstream.
    #[inline]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "similarity scores cannot be NaN");
        Score(value)
    }

    /// The raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether this score is exactly zero (the pair shares no terms).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl From<u64> for Score {
    #[inline]
    fn from(v: u64) -> Self {
        Score(v as f64)
    }
}

impl PartialEq for Score {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Score {}

impl PartialOrd for Score {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Score {
    type Output = Score;
    #[inline]
    fn add(self, rhs: Score) -> Score {
        Score(self.0 + rhs.0)
    }
}

impl AddAssign for Score {
    #[inline]
    fn add_assign(&mut self, rhs: Score) {
        self.0 += rhs.0;
    }
}

impl Sum for Score {
    fn sum<I: Iterator<Item = Score>>(iter: I) -> Score {
        iter.fold(Score::ZERO, Add::add)
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_totally() {
        let mut v = vec![Score::new(2.0), Score::new(0.5), Score::new(1.0)];
        v.sort();
        assert_eq!(v, vec![Score::new(0.5), Score::new(1.0), Score::new(2.0)]);
    }

    #[test]
    fn accumulates() {
        let mut s = Score::ZERO;
        s += Score::from(3u64);
        s += Score::new(0.5);
        assert_eq!(s.value(), 3.5);
        let total: Score = [Score::new(1.0), Score::new(2.0)].into_iter().sum();
        assert_eq!(total, Score::new(3.0));
    }

    #[test]
    fn zero_detection() {
        assert!(Score::ZERO.is_zero());
        assert!(!Score::new(1e-12).is_zero());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let _ = Score::new(f64::NAN);
    }

    #[test]
    fn integer_products_are_exact() {
        // u16::MAX² sums stay exactly representable: accumulation order
        // cannot change the result for raw count products.
        let big = (u16::MAX as f64) * (u16::MAX as f64);
        let a = Score::new(big) + Score::new(1.0);
        let b = Score::new(1.0) + Score::new(big);
        assert_eq!(a, b);
    }
}
