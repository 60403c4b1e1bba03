use crate::{Interval, Schema};
use std::fmt;

/// A single range condition `attr ∈ interval` — the building block of
/// predicates. Equality (`branch = 'Chicago'`) is the point interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Index of the constrained attribute in the schema.
    pub attr: usize,
    /// The allowed range.
    pub interval: Interval,
}

impl Atom {
    /// `attr ∈ interval`.
    pub fn new(attr: usize, interval: Interval) -> Self {
        Atom { attr, interval }
    }

    /// `attr = v` as a point interval.
    pub fn eq(attr: usize, v: f64) -> Self {
        Atom::new(attr, Interval::point(v))
    }

    /// `lo ≤ attr ≤ hi`.
    pub fn between(attr: usize, lo: f64, hi: f64) -> Self {
        Atom::new(attr, Interval::closed(lo, hi))
    }

    /// `lo ≤ attr < hi` — the bucket form used throughout the paper.
    pub fn bucket(attr: usize, lo: f64, hi: f64) -> Self {
        Atom::new(attr, Interval::half_open(lo, hi))
    }

    /// Evaluate against an encoded row (one `f64` per schema attribute).
    #[inline]
    pub fn eval(&self, row: &[f64]) -> bool {
        self.interval.contains(row[self.attr])
    }

    /// Human-readable form using schema names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Atom, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} ∈ {}", self.1.attr_name(self.0.attr), self.0.interval)
            }
        }
        D(self, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    #[test]
    fn eval_on_encoded_row() {
        let a = Atom::between(1, 0.0, 10.0);
        assert!(a.eval(&[99.0, 5.0]));
        assert!(!a.eval(&[99.0, 11.0]));
    }

    #[test]
    fn display_uses_names() {
        let schema = Schema::new(vec![("price", AttrType::Float)]);
        let a = Atom::between(0, 0.0, 149.99);
        assert_eq!(a.display(&schema).to_string(), "price ∈ [0, 149.99]");
    }
}
