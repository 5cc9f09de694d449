//! Term and document identifiers.
//!
//! The paper assumes terms and documents are identified by numbers: a term
//! number occupies 3 bytes and a document number the same (section 3), so
//! both identifiers are capped at `2^24 - 1`. In a multidatabase environment
//! the paper further assumes a *standard mapping* from terms to term numbers
//! shared by all local IR systems; `textjoin-collection` provides that
//! mapping, and everything downstream works with these numeric ids.

use std::fmt;

/// Largest value representable in the 3-byte on-disk number encoding.
pub const MAX_NUMBER: u32 = (1 << 24) - 1;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
        )]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw number, panicking if it exceeds the 3-byte range.
            ///
            /// # Panics
            /// Panics if `raw > MAX_NUMBER`; ids must fit the paper's
            /// `|t#| = |d#| = 3` byte encoding.
            #[inline]
            pub fn new(raw: u32) -> Self {
                assert!(
                    raw <= MAX_NUMBER,
                    concat!(stringify!($name), " {} exceeds the 3-byte id range"),
                    raw
                );
                Self(raw)
            }

            /// Wraps a raw number, returning `None` if it exceeds the 3-byte range.
            #[inline]
            pub fn try_new(raw: u32) -> Option<Self> {
                (raw <= MAX_NUMBER).then_some(Self(raw))
            }

            /// The raw numeric value.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }

            /// The raw value widened for use as a vector index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

define_id!(
    /// A term number (`t#`): the numeric identifier of a vocabulary term.
    TermId
);
define_id!(
    /// A document number (`d#`): the numeric identifier of a document within
    /// its collection. Document numbers are collection-local and dense,
    /// starting at 0.
    DocId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_raw_value() {
        let t = TermId::new(123_456);
        assert_eq!(t.raw(), 123_456);
        assert_eq!(t.index(), 123_456usize);
        assert_eq!(u32::from(t), 123_456);
        assert_eq!(t.to_string(), "123456");
    }

    #[test]
    fn accepts_max_number() {
        assert_eq!(DocId::new(MAX_NUMBER).raw(), MAX_NUMBER);
        assert!(TermId::try_new(MAX_NUMBER).is_some());
    }

    #[test]
    fn rejects_numbers_above_three_bytes() {
        assert!(TermId::try_new(MAX_NUMBER + 1).is_none());
        assert!(DocId::try_new(u32::MAX).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds the 3-byte id range")]
    fn new_panics_above_range() {
        let _ = TermId::new(MAX_NUMBER + 1);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(DocId::new(1) < DocId::new(2));
        assert_eq!(TermId::new(7), TermId::new(7));
    }
}
